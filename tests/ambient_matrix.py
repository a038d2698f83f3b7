"""Test oracles: the inverse of a matrix over a field, the ambient matrix of
a W or Aut element given as a root-index permutation, and a rational matrix
given by its columns applied to a vector."""

from fractions import Fraction

from flagcr.gaussq import Factored, _apply
from flagcr.weyl import simple_roots


def inverse(rows, coerce) -> list[tuple]:
    """Rows of A^-1, built one column at a time: column k is the solution of
    A x = e_k by Factored.solve.  ValueError unless A is square and every
    unit vector is solvable, that is unless A is invertible."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    f = Factored(rows, coerce)
    cols = [f.solve([int(t == k) for t in range(n)]) for k in range(n)]
    if None in cols:
        raise ValueError("matrix is not invertible")
    return list(zip(*cols))


def matrix_of(r, g) -> list[tuple[Fraction, ...]]:
    """Columns of the ambient matrix of the element g: the linear map taking
    each simple root s to root g[s] and fixing the orthogonal complement of
    the root span."""
    simples = simple_roots(r)
    vecs = [r.roots[s] for s in simples]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
    ginv = inverse(gram, Fraction)
    n = r.ambient_dim
    cols = []
    for k in range(n):
        # e_k = its projection sum_i coeff_i s_i onto the root span, plus a
        # vector orthogonal to every root, which the map fixes
        coeff = [sum(gi[j] * vecs[j][k] for j in range(len(vecs))) for gi in ginv]
        col = [Fraction(int(t == k)) for t in range(n)]
        for c, s, v in zip(coeff, simples, vecs):
            for t in range(n):
                col[t] += c * (r.roots[g[s]][t] - v[t])
        cols.append(tuple(col))
    return cols


def apply_cols(cols, v) -> tuple[Fraction, ...]:
    """The rational matrix with columns cols times the vector v, by
    gaussq._apply, read back as rationals."""
    return tuple(z.re for z in _apply(cols, v, len(cols[0])))
