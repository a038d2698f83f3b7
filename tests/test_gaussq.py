from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient_matrix import inverse

from flagcr.gaussq import (
    C_I,
    C_ONE,
    CMatrix,
    CNum,
    Factored,
    RMatrix,
    complexify_vector,
    kernel,
    realify_vector,
    solve_linear,
)


def test_cnum_arithmetic():
    a = CNum(Fraction(1), Fraction(2))
    b = CNum(Fraction(3), Fraction(-1))
    assert a + b == CNum(Fraction(4), Fraction(1))
    assert a * b == CNum(Fraction(5), Fraction(5))
    assert (a / b) * b == a
    assert a.conj() == CNum(Fraction(1), Fraction(-2))
    assert str(CNum(Fraction(1, 2))) == "1/2"
    with pytest.raises(ZeroDivisionError):
        a / CNum()
    assert not CNum() and a and CNum(Fraction(0), Fraction(-1)) and CNum(Fraction(1, 3))


def test_realify_roundtrip():
    v = (CNum(Fraction(1), Fraction(2)), CNum(Fraction(-3), Fraction(0)))
    assert complexify_vector(realify_vector(v)) == v


def test_rmatrix_ops():
    a = RMatrix([[1, 0, 1], [0, 1, 1]])
    b = RMatrix([[1, 1, 2], [1, -1, 0]])
    assert a == b
    c = RMatrix([[1, 0, 0]])
    assert a.sum(c).rank() == 3
    inter = a.intersect(RMatrix([[1, 0, 1], [0, 0, 1]]))
    assert inter.rank() == 1
    assert inter.contains([1, 0, 1])
    assert not a.contains([1, 0, 0])
    assert a.contains_space(RMatrix([[1, 1, 2]]))


def test_cmatrix_complex_spans():
    v = (C_ONE, C_I)
    a = CMatrix([v])
    assert a.contains((C_I, -C_ONE))  # i * v
    assert not a.contains((C_ONE, -C_I))
    b = CMatrix([(C_ONE, -C_I)])
    assert a.intersect(b).rank() == 0


def test_solve_linear():
    rows = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    x = solve_linear(rows, [Fraction(5), Fraction(6)], Fraction)
    assert x == [Fraction(3, 2), Fraction(2)]
    assert solve_linear([[Fraction(1)], [Fraction(1)]], [Fraction(1), Fraction(2)], Fraction) is None


def test_factored_inverse_and_singular():
    # the tests' inverse solves A x = e_k through Factored, column by column
    f = Factored([[2, 1], [4, 3]], Fraction)
    assert f.rank == 2 and f.pivots == [0, 1]
    assert inverse([[2, 1], [4, 3]], Fraction) == [(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-2), Fraction(1))]
    assert kernel([[2, 1], [4, 3]], Fraction) == []
    assert Factored([[1, 2], [2, 4]], Fraction).solve([0, 1]) is None
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]], Fraction)
    with pytest.raises(ValueError):
        inverse([[1, 0, 0], [0, 1, 0]], Fraction)


# Property tests of the factor-once object on small random matrices over Q
# and Q(i); ranks are cross-checked against the row spaces of RMatrix /
# CMatrix, which reduce the rows without the row transform.

_Q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_QI = st.builds(CNum, _Q, _Q)
FIELDS = {"Q": (_Q, Fraction, RMatrix), "Q(i)": (_QI, CNum.of, CMatrix)}


@st.composite
def systems(draw):
    """(field, A, b): A is m x n with m, n <= 4; b is A x for a random x
    half the time (a consistent system) and random otherwise."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    entry, coerce, _ = FIELDS[name]
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # sparse entries make rank-deficient matrices common
    a = [[draw(st.one_of(st.just(coerce(0)), entry)) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(n)]
        b = _mul(a, x, coerce)
    else:
        b = [draw(entry) for _ in range(m)]
    return name, a, b


def _mul(a, x, coerce):
    out = []
    for row in a:
        s = coerce(0)
        for u, v in zip(row, x):
            s = s + u * v
        out.append(s)
    return out


def _rank(name, rows):
    return FIELDS[name][2](rows).rank()


@settings(max_examples=150, deadline=None)
@given(systems())
def test_factored_solve_property(system):
    name, a, b = system
    coerce = FIELDS[name][1]
    f = Factored(a, coerce)
    assert f.rank == _rank(name, a)
    x = f.solve(b)
    augmented_rank = _rank(name, [row + [bi] for row, bi in zip(a, b)])
    assert (x is None) == (augmented_rank > f.rank)
    if x is not None:
        assert _mul(a, x, coerce) == [coerce(v) for v in b]
    assert solve_linear(a, b, coerce) == x


@settings(max_examples=150, deadline=None)
@given(systems())
def test_factored_kernel_property(system):
    name, a, _ = system
    coerce = FIELDS[name][1]
    ker = kernel(a, coerce)
    assert len(ker) == len(a[0]) - Factored(a, coerce).rank
    for v in ker:
        assert all(not z for z in _mul(a, v, coerce))
    if ker:
        assert _rank(name, ker) == len(ker)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_factored_inverse_property(system):
    name, a, _ = system
    coerce = FIELDS[name][1]
    a = [row[: len(a)] + [coerce(1)] * (len(a) - len(row)) for row in a]  # square
    if Factored(a, coerce).rank < len(a):
        with pytest.raises(ValueError):
            inverse(a, coerce)
        return
    inv = inverse(a, coerce)
    n = len(a)
    prod = [[_mul([inv[i]], [a[k][j] for k in range(n)], coerce)[0] for j in range(n)] for i in range(n)]
    assert prod == [[coerce(1 if i == j else 0) for j in range(n)] for i in range(n)]
